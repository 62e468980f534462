"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import load_matrix, main


class TestLoadMatrix:
    def test_generator_specs(self):
        assert load_matrix("g0:8").shape == (64, 64)
        assert load_matrix("poisson3d:3").shape == (27, 27)
        assert load_matrix("cd:5").shape == (25, 25)

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            load_matrix("magic:5")

    def test_file_path(self, tmp_path):
        from repro.matrices import poisson2d
        from repro.sparse import write_matrix_market

        p = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(4), p)
        A = load_matrix(str(p))
        assert A.shape == (16, 16)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "g0:8"]) == 0
        out = capsys.readouterr().out
        assert "64 x 64" in out
        assert "symmetric:  yes" in out

    def test_partition(self, capsys):
        assert main(["partition", "g0:10", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "p=4" in out and "halo exchange" in out

    def test_factor_plain_and_star(self, capsys):
        assert main(["factor", "g0:10", "-p", "2", "-m", "5", "-t", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "ILUT(5,0.001)" in out
        assert main(
            ["factor", "g0:10", "-p", "2", "-m", "5", "-t", "1e-3", "-k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ILUT*(5,0.001,2)" in out

    def test_solve_converges(self, capsys):
        rc = main(["solve", "g0:10", "-p", "2", "-m", "5", "-t", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "out.mtx"
        assert main(["generate", "g0:6", str(out_path)]) == 0
        from repro.sparse import read_matrix_market
        from repro.matrices import poisson2d

        assert read_matrix_market(out_path).allclose(poisson2d(6), rtol=0, atol=0)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestInfoPaths:
    def test_nonsymmetric_matrix_reported(self, capsys):
        assert main(["info", "cd:5"]) == 0
        out = capsys.readouterr().out
        assert "symmetric:  no (|A-A^T|_F" in out

    def test_mtx_file_input(self, tmp_path, capsys):
        from repro.matrices import poisson2d
        from repro.sparse import write_matrix_market

        p = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(4), p)
        assert main(["info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "16 x 16" in out
        assert "diagonal:" in out and "zero entries = 0" in out

    def test_bandwidth_and_density_lines(self, capsys):
        assert main(["info", "g0:8"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth:" in out
        assert "per row" in out


class TestPartitionPaths:
    @pytest.mark.parametrize("method", ["multilevel", "block", "random"])
    def test_all_methods(self, method, capsys):
        assert main(["partition", "g0:10", "-p", "4", "--method", method]) == 0
        out = capsys.readouterr().out
        assert "p=4" in out
        assert "halo exchange" in out

    def test_single_rank_has_no_halo(self, capsys):
        assert main(["partition", "g0:8", "-p", "1"]) == 0
        out = capsys.readouterr().out
        assert "halo exchange: 0 rank pairs, 0 values per matvec" in out

    def test_seed_changes_random_partition_not_exit_code(self, capsys):
        assert main(["partition", "g0:10", "-p", "4", "--method", "random",
                     "--seed", "7"]) == 0
        assert "p=4" in capsys.readouterr().out


class TestCheckCommand:
    def test_healthy_run_exits_zero(self, capsys):
        assert main(["check", "g0:10", "-p", "4", "-m", "5"]) == 0
        out = capsys.readouterr().out
        assert "check OK: 0 races, 0 invariant violations" in out
        assert "race detector: ILUT(5," in out

    def test_healthy_star_variant(self, capsys):
        assert main(["check", "g0:10", "-p", "4", "-m", "5", "-k", "2"]) == 0
        assert "ILUT*(5," in capsys.readouterr().out

    def test_zero_diag_injection_fails(self, capsys):
        assert main(["check", "g0:10", "--inject", "zero-diag"]) == 1
        out = capsys.readouterr().out
        assert "injected: zeroed U diagonal" in out
        assert "INVARIANT:" in out and "singular" in out
        assert "check FAILED" in out

    def test_unsorted_row_injection_fails(self, capsys):
        assert main(["check", "g0:10", "--inject", "unsorted-row"]) == 1
        out = capsys.readouterr().out
        assert "INVARIANT:" in out and "unsorted" in out

    def test_race_injection_fails(self, capsys):
        assert main(["check", "g0:10", "--inject", "race"]) == 1
        out = capsys.readouterr().out
        assert "RACE:" in out and "interface-row" in out
        assert "check FAILED: 1 race(s), 0 violation(s)" in out


class TestFaultInjectModes:
    """``--inject`` fault modes must *recover* (exit 0), unlike the
    structural modes which must be *reported* (exit 1)."""

    def test_message_drop_recovers(self, capsys):
        assert main(["check", "g0:12", "--inject", "message-drop"]) == 0
        out = capsys.readouterr().out
        assert "drop=1" in out and "retransmit=1" in out
        assert "bit-identical" in out
        assert "fault check OK" in out

    def test_rank_crash_recovers(self, capsys):
        assert main(["check", "g0:12", "--inject", "rank-crash"]) == 0
        out = capsys.readouterr().out
        assert "crashed rank" in out
        assert "1 region retr(ies)" in out
        assert "bit-identical" in out

    def test_rank_crash_star_variant(self, capsys):
        assert main(["check", "g0:12", "-k", "2", "--inject", "rank-crash"]) == 0
        assert "fault check OK" in capsys.readouterr().out

    def test_nan_corrupt_detected_and_solved_around(self, capsys):
        assert main(["check", "g0:12", "--inject", "nan-corrupt"]) == 0
        out = capsys.readouterr().out
        assert "NonFiniteError" in out
        assert "converged" in out
        assert "fault check OK: corruption detected" in out

    def test_corrupt_result_recovers_on_the_simulator(self, capsys):
        """corrupt-result is read at region dispatch on every transport:
        the simulator retries the region as the workers do."""
        assert main(["check", "g0:12", "--inject", "corrupt-result"]) == 0
        out = capsys.readouterr().out
        assert "corrupt=1" in out and "region-retry=1" in out
        assert "1 region retr(ies)" in out
        assert "fault check OK: injection recovered" in out
        assert main(["check", "g0:12", "--inject", "corrupt-result", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["recoveries"] == 1

    def test_corrupt_result_recovers_on_threads(self, capsys):
        argv = ["check", "g0:12", "--inject", "corrupt-result", "--transport", "threads"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 region retr(ies)" in out
        assert "fault check OK: injection recovered" in out


class TestCheckJson:
    """``check --json`` replaces the text report with one JSON document."""

    def test_structural_ok(self, capsys):
        assert main(["check", "g0:10", "-p", "4", "-m", "5", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # the whole stdout is one document
        assert doc["mode"] == "structural"
        assert doc["ok"] is True and doc["exit"] == 0
        assert doc["races"] == [] and doc["invariant_violations"] == []
        assert doc["levels"] > 0
        assert doc["params"] == {"m": 5, "t": 1e-4, "k": None}

    def test_structural_injection_reported(self, capsys):
        assert main(["check", "g0:10", "--inject", "zero-diag", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["exit"] == 1
        assert doc["inject"] == "zero-diag"
        assert any("singular" in v for v in doc["invariant_violations"])

    def test_fault_mode_recovery(self, capsys):
        assert main(["check", "g0:12", "--inject", "message-drop", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "fault"
        assert doc["injected"] is True
        assert doc["factors_bit_identical"] is True
        assert doc["ok"] is True and doc["exit"] == 0
