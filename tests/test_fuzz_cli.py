"""The fuzz CLI and its seat at the ``python -m repro`` front door."""

import json

import pytest

from repro.chaos.soak import main as chaos_main
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.runner import ENV_PLANT


class TestCampaignCli:
    def test_clean_seeds_exit_zero(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        code = fuzz_main([
            "--seed", "0", "--count", "4", "--corpus", corpus,
            "--horizon-ms", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cell(s) run" in out
        assert "ok=4" in out

    def test_explicit_seed_list_overrides_range(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        assert fuzz_main([
            "--seeds", "3", "7", "--corpus", corpus, "--horizon-ms", "500",
        ]) == 0
        seeds = [
            json.loads(line)["seed"] for line in open(corpus)
        ]
        assert seeds == [3, 7]

    def test_violations_exit_one_and_write_repros(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        corpus = str(tmp_path / "corpus.jsonl")
        code = fuzz_main([
            "--seeds", "0", "--corpus", corpus, "--horizon-ms", "500",
            "--shrink-budget", "12",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation=1" in out
        assert "fuzz-repro-0.json" in out

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "0", "--count", "1", "--horizon-ms", "-5"],
         "--horizon-ms"),
        (["--seed", "-1", "--count", "1"], "--seed"),
        (["--seeds", "3", "-1"], "--seeds"),
    ])
    def test_bad_numbers_are_usage_errors(self, argv, flag, tmp_path,
                                          capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        with pytest.raises(SystemExit) as exc:
            fuzz_main(argv + ["--corpus", corpus])
        assert exc.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err


class TestReplayCli:
    def test_replay_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        corpus = str(tmp_path / "corpus.jsonl")
        fuzz_main([
            "--seeds", "0", "--corpus", corpus, "--horizon-ms", "500",
            "--shrink-budget", "12",
        ])
        # The chaos soak writes the same repro-file format.
        chaos_repro = str(tmp_path / "chaos-repro.json")
        assert chaos_main([
            "--seeds", "0", "--horizon-ms", "500", "--repro", chaos_repro,
        ]) == 1
        capsys.readouterr()
        repros = [str(tmp_path / "fuzz-repro-0.json"), chaos_repro]
        # With the bug still planted, each repro reproduces: exit 1.
        for repro in repros:
            assert fuzz_main(["--repro", repro]) == 1
            assert "page-conservation" in capsys.readouterr().out
        # With the bug "fixed", the same repros run clean: exit 0.
        monkeypatch.delenv(ENV_PLANT)
        for repro in repros:
            assert fuzz_main(["--repro", repro]) == 0


class TestFrontDoor:
    def test_repro_dispatch_knows_fuzz(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        corpus = str(tmp_path / "corpus.jsonl")
        assert repro_main([
            "fuzz", "--seeds", "1", "--corpus", corpus, "--horizon-ms", "500",
        ]) == 0

    def test_help_lists_fuzz(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["--help"]) == 0
        assert "fuzz" in capsys.readouterr().out
