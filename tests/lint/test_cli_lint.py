"""The ``python -m repro lint`` command end to end."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def test_bad_fixture_exits_1(capsys):
    rc = main(["lint", str(FIXTURES / "det003_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "DET003" in out
    assert out.strip().endswith("2 finding(s)")


def test_clean_fixture_exits_0(capsys):
    rc = main(["lint", str(FIXTURES / "det003_clean.py")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0 finding(s)"


def test_missing_path_exits_2(capsys):
    rc = main(["lint", str(FIXTURES / "no_such_file.py")])
    assert rc == 2
    assert "no such path" in capsys.readouterr().err


def test_repo_acceptance_command(capsys):
    """`python -m repro lint src/repro` run from the repo: exit 0."""
    rc = main(["lint", str(REPO / "src" / "repro")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 finding(s)" in out


def test_list_rules(capsys):
    rc = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    # every rule DESIGN.md §10.3 keeps, and none it dropped
    assert {ln.split()[0] for ln in out.splitlines()} == {
        "BRK001", "DET001", "DET002", "DET003", "DET004", "PAR002", "PERF001",
        "TRN003", "TRN004",
    }


def test_select_and_ignore(capsys):
    path = str(FIXTURES / "det001_bad.py")
    assert main(["lint", path, "--select", "TRN003"]) == 0
    capsys.readouterr()
    assert main(["lint", path, "--ignore", "DET001"]) == 0


def test_json_format(capsys):
    rc = main(["lint", str(FIXTURES / "brk001_bad.py"),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["new"] == 2
    assert {f["rule"] for f in doc["findings"]} == {"BRK001"}


def test_github_format_emits_workflow_commands(capsys):
    rc = main(["lint", str(FIXTURES / "det003_bad.py"),
               "--format", "github"])
    out = capsys.readouterr().out
    assert rc == 1
    lines = [ln for ln in out.splitlines() if ln.startswith("::")]
    assert len(lines) == 2
    for ln in lines:
        assert ln.startswith("::warning file=")
        assert "title=DET003" in ln
    assert "2 finding(s)" in out


def test_github_format_escapes_message_payload(capsys):
    rc = main(["lint", str(FIXTURES / "trn003_bad.py"),
               "--select", "TRN003", "--format", "github"])
    out = capsys.readouterr().out
    assert rc == 1
    # hidden-state messages contain commas/colons/parentheses; they must
    # survive as data, and the property fields must never carry a raw
    # newline
    assert "::error file=" in out
    for ln in out.splitlines():
        if ln.startswith("::"):
            props = ln.split("::", 2)[1]
            assert "\n" not in props


def test_stats_flag_reports_rule_timings(capsys):
    rc = main(["lint", str(FIXTURES / "det003_bad.py"),
               "--stats"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "file(s) analyzed" in err
    assert "DET003" in err


def test_verify_transport_certifies_the_repo(capsys):
    rc = main(["lint", "--verify-transport", str(REPO / "src" / "repro")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "CERTIFIED" in out and "FAILED" not in out
    assert "transport-portable" in out.splitlines()[-1]


def test_verify_transport_fails_on_hidden_state_fixture(capsys):
    rc = main(["lint", "--verify-transport", str(FIXTURES / "trn003_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED" in out
    assert "TRN003" in out
    assert "payloads=" not in out


def test_verify_transport_exits_1_if_any_row_fails(capsys):
    rc = main(["lint", "--verify-transport",
               str(REPO / "src" / "repro"), str(FIXTURES / "trn003_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    # the repo's rows certify; the fixture's fail the table
    assert "CERTIFIED" in out and "FAILED" in out and "TRN003" in out
    certified, total = out.splitlines()[-1].split(" ", 1)[0].split("/")
    assert 0 < int(certified) < int(total)


@pytest.mark.parametrize(
    "flags",
    [["--verify-protocol"], ["--fix"], ["--diff"], ["--baseline", "b.json"], ["--no-baseline"],
     ["--write-baseline"], ["--show-baselined"], ["--no-cache"],
     ["-o", "out.txt"], ["--output", "out.txt"], ["--format", "sarif"],
     ["--verify-costs"]],
    ids=lambda f: f[0],
)
def test_removed_flags_are_rejected(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(FIXTURES / "det003_clean.py"), *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_stats_json_writes_machine_readable_timings(tmp_path):
    import json

    dest = tmp_path / "stats.json"
    rc = main(["lint", str(FIXTURES / "det003_bad.py"),
               "--stats-json", str(dest)])
    assert rc == 1
    data = json.loads(dest.read_text())
    assert data["files"] == 1
    assert "DET003" in data["rule_seconds"]
    assert data["total_seconds"] > 0


class TestDirectoryProfiles:
    def test_perf_rules_off_under_tests_dir(self, tmp_path, capsys):
        work = tmp_path / "proj"
        (work / "tests").mkdir(parents=True)
        (work / "pyproject.toml").write_text("[project]\nname='x'\n")
        mod = work / "tests" / "helper.py"
        shutil.copyfile(FIXTURES / "perf001_bad.py", mod)
        # directory discovery applies the tests/ profile -> no findings
        rc = main(["lint", str(work / "tests")])
        assert rc == 0
        capsys.readouterr()
        # naming the file explicitly bypasses the profile (ruff convention)
        rc = main(["lint", str(mod)])
        assert rc == 1
        assert "PERF001" in capsys.readouterr().out

    def test_det_rules_still_apply_under_tests_dir(self, tmp_path, capsys):
        work = tmp_path / "proj"
        (work / "tests").mkdir(parents=True)
        (work / "pyproject.toml").write_text("[project]\nname='x'\n")
        shutil.copyfile(FIXTURES / "det001_bad.py", work / "tests" / "helper.py")
        rc = main(["lint", str(work / "tests")])
        assert rc == 1
        assert "DET001" in capsys.readouterr().out


class TestChangedOnly:
    def test_changed_only_outside_git_lints_everything(self, tmp_path, capsys):
        work = tmp_path / "notgit"
        (work / "src").mkdir(parents=True)
        (work / "pyproject.toml").write_text("[project]\nname='x'\n")
        mod = work / "src" / "mod.py"
        shutil.copyfile(FIXTURES / "det003_bad.py", mod)
        rc = main(["lint", str(mod), "--changed-only"])
        # `git status` still resolves inside the enclosing repo checkout,
        # so the fixture path (untracked or not applicable) yields either
        # a full lint (rc 1) or an empty changed set (rc 0); both are
        # exercised without crashing.
        assert rc in (0, 1)
        assert "finding(s)" in capsys.readouterr().out
