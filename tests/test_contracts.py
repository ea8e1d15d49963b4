"""The CLI contracts runner (``tests/contracts.py``) fails when it should; no CLI runs here."""

import os
import sys

import contracts
from contracts import Contract, has, same


def _run_probe(monkeypatch, *checks) -> int:
    monkeypatch.setattr("contracts.CLI", [sys.executable, "-c", "import sys; print(*sys.argv[1:])"])
    probe = Contract("probe", {"a": "abc", "b": "abd"}, checks)  # echoes, one byte apart
    monkeypatch.setattr("contracts.CONTRACTS", (probe,))
    return contracts.main([])


def test_one_byte_of_stdout_fails_with_its_diff(monkeypatch, capsys):
    assert _run_probe(monkeypatch, same("a.txt", ("a.txt", "x")), same("a.txt", "b.txt")) == 1
    diff = "a.txt and b.txt differ:\n--- a.txt\n+++ b.txt\n@@ -1 +1 @@\n-abc\n+abd\n"
    assert f"FAIL probe: {diff}" in capsys.readouterr().err


def test_forbidden_text_fails(monkeypatch, capsys):
    assert _run_probe(monkeypatch, has("b.txt", "^abd$"), has("b.txt", "abd", present=False)) == 1
    assert "FAIL probe: b.txt has /abd/" in capsys.readouterr().err


def test_contract_names_are_unique_and_unknown_names_exit_2(capsys):
    names = [contract.name for contract in contracts.CONTRACTS]
    assert len(set(names)) == len(names) == 19
    assert contracts.main(["no-such-contract"]) == 2
    assert "known: fig5-executors, " in capsys.readouterr().err


def test_ci_runs_the_cli_only_through_the_runner():
    with open(os.path.join(os.path.dirname(contracts.SRC), ".github/workflows/ci.yml")) as handle:
        workflow = handle.read()
    assert "repro.cli" not in workflow and "python tests/contracts.py" in workflow
