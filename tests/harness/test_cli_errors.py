"""CLI error paths: exit codes AND the stderr message the user sees.

Complements the golden-output CLI tests: here every rejection is pinned
to ``SystemExit(2)`` (argparse usage-error convention) plus the exact
diagnostic substring, so error messages can't silently regress into
stack traces or vague one-liners.  Also pins the ``cache prune``
size/duration micro-parsers across their unit matrices.
"""

import argparse

import pytest

from repro.cli import _byte_size, _duration, main


def _expect_usage_error(capsys, argv, *needles):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for needle in needles:
        assert needle in err, f"{needle!r} not in stderr:\n{err}"


# --------------------------------------------------------------------- #
# sweep: fold validation and axis declaration errors
# --------------------------------------------------------------------- #

class TestSweepRejections:
    def test_unknown_pivot_axis_fails_before_simulating(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "app=comd", "--axis", "nprocs=2",
             "--base", "niters=2", "--pivot", "protocl"],
            "protocl",
        )

    def test_baseline_without_pivot_rejected(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "app=comd", "--axis", "nprocs=2",
             "--baseline", "native"],
            "baseline",
        )

    def test_unknown_metric_rejected(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "app=comd", "--axis", "nprocs=2",
             "--metric", "goodput"],
            "goodput",
        )

    def test_duplicate_axis_keys_name_the_offenders(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "nprocs=2", "--axis", "nprocs=4",
             "--axis", "app=comd,poisson"],
            "duplicate --axis key(s): nprocs",
            "values are comma-separated",
        )

    def test_duplicate_base_keys_rejected(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "app=comd", "--base", "niters=2",
             "--base", "niters=4"],
            "duplicate --base key(s): niters",
        )

    def test_malformed_axis_spec_names_expected_shape(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "nprocs"],
            "expected key=v1,v2,",
        )

    def test_unknown_app_axis_value_lists_known_apps(self, capsys):
        _expect_usage_error(
            capsys,
            ["sweep", "--axis", "app=htree", "--axis", "nprocs=2"],
            "unknown app 'htree'",
        )


# --------------------------------------------------------------------- #
# cache prune: size/duration parsing
# --------------------------------------------------------------------- #

class TestPruneParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0),
            ("1048576", 1 << 20),
            ("64K", 64 << 10),
            ("64k", 64 << 10),
            ("512M", 512 << 20),
            ("2G", 2 << 30),
            ("1.5M", int(1.5 * (1 << 20))),
        ],
    )
    def test_byte_sizes(self, text, expected):
        assert _byte_size(text) == expected

    @pytest.mark.parametrize("text", ["", "12Q", "M", "garbage", "--3", "1 G"])
    def test_bad_byte_sizes(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="expected a size"):
            _byte_size(text)

    def test_negative_byte_size_message(self):
        with pytest.raises(argparse.ArgumentTypeError, match="cannot be negative"):
            _byte_size("-5M")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("90", 90.0),
            ("45s", 45.0),
            ("30m", 1800.0),
            ("12h", 43200.0),
            ("7d", 604800.0),
            ("0.5h", 1800.0),
        ],
    )
    def test_durations(self, text, expected):
        assert _duration(text) == expected

    @pytest.mark.parametrize("text", ["", "1w", "d", "soon", "1 d"])
    def test_bad_durations(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="expected a duration"):
            _duration(text)

    def test_negative_duration_message(self):
        with pytest.raises(argparse.ArgumentTypeError, match="cannot be negative"):
            _duration("-7d")

    def test_bad_prune_flags_surface_through_the_cli(self, tmp_path, capsys):
        _expect_usage_error(
            capsys,
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--older-than", "fortnight"],
            "expected a duration like 90, 30m, 12h, or 7d",
        )
        _expect_usage_error(
            capsys,
            ["cache", "prune", "--cache-dir", str(tmp_path),
             "--max-image-bytes", "lots"],
            "expected a size like 1048576, 64K, 512M, or 2G",
        )

    def test_prune_without_selectors_names_all_options(self, tmp_path, capsys):
        _expect_usage_error(
            capsys,
            ["cache", "prune", "--cache-dir", str(tmp_path)],
            "--figure", "--older-than", "--max-entries", "--max-image-bytes",
        )


# --------------------------------------------------------------------- #
# top-level argument plumbing
# --------------------------------------------------------------------- #

class TestTopLevelRejections:
    @pytest.mark.parametrize("command", ["fig99", "serve", "worker"])
    def test_unknown_experiment_lists_choices(self, capsys, command):
        _expect_usage_error(capsys, [command], f"invalid choice: '{command}'")

    def test_nonpositive_jobs_rejected(self, capsys):
        _expect_usage_error(
            capsys, ["table1", "--jobs", "0"], "must be a positive integer"
        )

    def test_malformed_procs_list_rejected(self, capsys):
        _expect_usage_error(
            capsys, ["fig5a", "--procs", "4,eight"],
            "expected comma-separated integers",
        )

    @pytest.mark.parametrize(
        "figure,flag",
        [("table1", ["--procs", "4"]), ("fig5a", ["--nodes", "2"]),
         ("fig6", ["--repeats", "2"]), ("fig7", ["--procs", "4"]),
         ("fig9", ["--repeats", "1"])],
    )
    def test_flag_the_figure_does_not_take_is_a_usage_error(
        self, capsys, figure, flag
    ):
        # A figure takes exactly its planner's parameters; anything else
        # must not be dropped silently while the default scale runs.
        _expect_usage_error(
            capsys, [figure, *flag, "--no-cache", "--quiet"],
            f"unrecognized arguments: {flag[0]}",
        )

    def test_removed_backend_flag_is_a_usage_error(self, capsys):
        # The kernel has one execution mechanism; the old selector must
        # fail like any unknown flag, not as a traceback further in.
        _expect_usage_error(
            capsys, ["fig5a", "--backend", "inline"],
            "unrecognized arguments: --backend inline",
        )

    @pytest.mark.parametrize(
        "flag", [["--dispatch", "inline"], ["--service", "127.0.0.1:7463"]]
    )
    @pytest.mark.parametrize(
        "command",
        [["fig5a"], ["all"], ["sweep", "--study", "ckpt_freq"], ["verify"],
         ["fuzz", "--iters", "1"]],
    )
    def test_removed_dispatch_flag_is_a_usage_error(self, capsys, command, flag):
        # Jobs run here, over --jobs; no flag sends them elsewhere.
        _expect_usage_error(
            capsys, [*command, *flag],
            f"unrecognized arguments: {' '.join(flag)}",
        )

    @pytest.mark.parametrize("command", [["verify"], ["fuzz", "--iters", "1"]])
    @pytest.mark.parametrize("flag", [["--recover"], ["--max-attempts", "5"]])
    def test_oracle_commands_take_no_recovery_flags(self, capsys, command, flag):
        # The recovery-chain oracle's budget follows from its schedule.
        _expect_usage_error(
            capsys, [*command, *flag], f"unrecognized arguments: {' '.join(flag)}",
        )
