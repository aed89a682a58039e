"""CLI smoke tests (fast experiments only)."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig4-3"])
        assert args.experiment == "fig4-3"
        assert args.scale == "tiny"

    def test_scale_option(self):
        args = build_parser().parse_args(["table5-1", "--scale", "paper"])
        assert args.scale == "paper"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_fig4_3_runs(self, capsys):
        assert main(["fig4-3"]) == 0
        assert "Figure 4-3" in capsys.readouterr().out

    def test_table5_1_runs(self, capsys):
        assert main(["table5-1", "--scale", "paper"]) == 0
        out = capsys.readouterr().out
        assert "IBM-0661-370" in out
        assert "949" in out


class TestSweepFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["fig6-1"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_jobs_and_no_cache_parse(self):
        args = build_parser().parse_args(["fig6-1", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_options_default_to_the_shared_cache(self):
        from repro.cli import sweep_options_from_args
        from repro.sweep import default_cache_dir

        options = sweep_options_from_args(build_parser().parse_args(["fig6-1"]))
        assert options.jobs == 1
        assert options.cache == default_cache_dir()
        assert options.progress is True

    def test_no_cache_disables_the_cache(self):
        from repro.cli import sweep_options_from_args

        args = build_parser().parse_args(["fig6-1", "--no-cache"])
        assert sweep_options_from_args(args).cache is None

    def test_cache_dir_relocates_the_cache(self):
        from repro.cli import sweep_options_from_args

        args = build_parser().parse_args(["fig6-1", "--cache-dir", "/tmp/sc"])
        assert sweep_options_from_args(args).cache == "/tmp/sc"

    def test_main_plumbs_options_into_the_runner(self, capsys, monkeypatch):
        from repro.experiments import fig6

        captured = {}

        def fake_run(scale, options=None):
            captured["scale"] = scale
            captured["options"] = options
            return [{"alpha": 0.2, "g": 4, "rate": 105.0, "mode": "fault-free",
                     "mean_response_ms": 20.0, "p90_ms": 30.0, "requests": 100}]

        monkeypatch.setattr(fig6, "run_fig6_1", fake_run)
        assert main(["fig6-1", "--jobs", "3", "--no-cache"]) == 0
        assert captured["scale"] == "tiny"
        assert captured["options"].jobs == 3
        assert captured["options"].cache is None
        assert "Figure 6-1" in capsys.readouterr().out

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6-1", "--jobs", "0"])


class TestScenario:
    @pytest.mark.parametrize("stripe_size, header", [
        (5, "scenario: C=21 G=5 alpha=0.200 layout=auto"),
        # No design, complete or arithmetic layout has G=7 on 21 disks:
        # the paper's G=6 design (alpha 0.25) runs instead.
        (7, "scenario: C=21 G=6 alpha=0.250 (closest feasible alpha to G=7 "
            "alpha=0.300) layout=auto"),
    ])
    def test_header_names_the_layout_that_runs(self, capsys, stripe_size, header):
        argv = [
            "scenario", "--stripe-size", str(stripe_size), "--cylinders", "13",
            "--duration-ms", "500", "--warmup-ms", "0", "--no-cache",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith(header + " ")
