"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.analysis.report import render_classification_table
from repro.cli import build_parser, main
from repro.protocols.classification import ClassificationResult, reproduce_table1


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.replicas == 5

    def test_classify_requires_known_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "dogecoin"])


class TestCommands:
    def test_hierarchy_command(self, capsys):
        assert main(["hierarchy"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "IMPOSSIBLE" in out
        assert "R(BT-ADT_SC, Θ_F,k=1)" in out

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 4" in out
        assert "MISMATCH" not in out

    def test_classify_command_hyperledger(self, capsys):
        assert main([
            "classify", "hyperledger", "--replicas", "4", "--duration", "60", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "R(BT-ADT_SC, Θ_F,k=1)" in out
        assert "fairness" in out

    def test_classify_command_bitcoin_fork_prone(self, capsys):
        assert main([
            "classify", "bitcoin", "--replicas", "4", "--duration", "80",
            "--seed", "3", "--fork-prone",
        ]) == 0
        out = capsys.readouterr().out
        assert "R(BT-ADT_EC, Θ_P)" in out

    def test_table1_command(self, capsys):
        status = main(["table1", "--replicas", "4", "--duration", "60", "--seed", "7"])
        out = capsys.readouterr().out
        assert "Table 1" in out
        for system in ("bitcoin", "ethereum", "hyperledger", "redbelly"):
            assert system in out
        # A run this short can land bitcoin on SC: the status follows the table.
        differs = any(line.split()[-1] == "NO" for line in out.splitlines() if line.strip())
        assert status == int(differs)

    @pytest.mark.parametrize(
        "overrides, status",
        [({}, 0), ({"ethereum": False}, 1), ({"bitcoin": None}, 0), ({"redbelly": False}, 1)],
    )
    def test_table1_exits_1_when_a_row_differs_from_the_paper(
        self, monkeypatch, capsys, table1_results, overrides, status
    ):
        # Every row matches the paper except the overridden ones.
        monkeypatch.setattr(
            ClassificationResult,
            "matches_paper",
            property(lambda result: overrides.get(result.name, True)),
        )
        monkeypatch.setattr(cli, "reproduce_table1", lambda **_kwargs: table1_results)
        assert main(["table1"]) == status
        # The printed table is the render of the results, nothing more or less.
        expected = render_classification_table(table1_results)
        assert capsys.readouterr().out == expected + "\n"
        assert ("NO " in expected) == (status == 1)


@pytest.fixture(scope="module")
def table1_results():
    return reproduce_table1(n=3, duration=20.0, seed=7)


class TestSweepCommand:
    def test_sweep_requires_a_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "--protocol", "bitcoin"])
        assert args.jobs == 1
        assert args.out == "sweep_results.json"

    def test_sweep_writes_json_results(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:2", "--out", str(out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "2 cells" in captured
        import json
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.sweep/2"
        assert payload["failures"] == 0
        assert len(payload["cells"]) == 2
        assert [c["spec"]["seed"] for c in payload["cells"]] == [0, 1]
        assert all("classification" in c for c in payload["cells"])

    def test_serial_and_parallel_sweeps_agree_per_cell(self, capsys, tmp_path):
        import json
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main([
                "sweep", "--protocol", "hyperledger", "--replicas", "3",
                "--duration", "30", "--seeds", "0:2", "--jobs", jobs,
                "--out", str(out),
            ]) == 0
            cells = json.loads(out.read_text())["cells"]
            outputs[jobs] = [
                {k: v for k, v in cell.items() if k != "timings"} for cell in cells
            ]
        capsys.readouterr()
        assert outputs["1"] == outputs["2"]

    def test_fork_sweep_still_prints_the_ablation(self, capsys):
        assert main([
            "fork-sweep", "--replicas", "3", "--duration", "40", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fork-rate ablation" in out
        assert "∞" in out

    def test_sweep_cache_flag_serves_rerun_from_disk(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        out = tmp_path / "results.json"
        argv = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:2", "--out", str(out),
            "--cache", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0/2 cells from cache" in first
        first_payload = out.read_text()

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2/2 cells from cache" in second
        assert out.read_text() == first_payload  # byte-identical re-run

    def test_sweep_cache_flag_defaults_without_a_dir(self):
        args = build_parser().parse_args(["sweep", "--protocol", "bitcoin", "--cache"])
        assert args.cache == ".repro-cache"
        args = build_parser().parse_args(["sweep", "--protocol", "bitcoin"])
        assert args.cache is None

    def test_sweep_resilience_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "--protocol", "bitcoin"])
        assert args.backend is None
        assert args.shard_index is None
        assert args.timeout is None
        assert args.retries == 0
        assert args.max_failures == 0
        assert args.journal is None
        assert not args.resume
        args = build_parser().parse_args(["sweep", "--protocol", "bitcoin", "--journal"])
        assert args.journal == "sweep.journal.jsonl"

    def test_sweep_unknown_backend_lists_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--protocol", "bitcoin", "--backend", "warp"])
        message = str(excinfo.value)
        assert "unknown executor 'warp'" in message
        assert "'serial'" in message and "'shard'" in message

    def test_sweep_shard_flag_validation(self):
        with pytest.raises(SystemExit, match="requires --shard-index"):
            main(["sweep", "--protocol", "bitcoin", "--backend", "shard"])
        with pytest.raises(SystemExit, match="cannot parse --shard-index"):
            main(["sweep", "--protocol", "bitcoin", "--shard-index", "four"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["sweep", "--protocol", "bitcoin", "--shard-index", "4/4"])
        with pytest.raises(SystemExit, match="requires --backend shard"):
            main([
                "sweep", "--protocol", "bitcoin",
                "--backend", "serial", "--shard-index", "0/4",
            ])

    def test_sweep_resume_flag_validation(self):
        with pytest.raises(SystemExit, match="requires --journal"):
            main(["sweep", "--protocol", "bitcoin", "--resume", "--cache"])
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["sweep", "--protocol", "bitcoin", "--resume", "--journal"])

    def test_sweep_flaky_rates_validation(self):
        with pytest.raises(SystemExit, match="unknown injection kind"):
            main([
                "sweep", "--protocol", "bitcoin", "--flaky-rates", "gamma-ray=0.5",
            ])
        with pytest.raises(SystemExit, match="cannot parse --flaky-rates"):
            main(["sweep", "--protocol", "bitcoin", "--flaky-rates", "exception"])

    def test_sweep_shard_invocations_merge_byte_identically(self, capsys, tmp_path):
        common = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:4", "--cache", str(tmp_path / "cache"),
        ]
        for index in range(4):
            out = tmp_path / f"shard{index}.json"
            assert main(common + ["--shard-index", f"{index}/4", "--out", str(out)]) == 0
            shard_out = capsys.readouterr().out
            assert f"[shard {index}/4: 1/4 grid cells]" in shard_out
            payload = json.loads(out.read_text())
            assert payload["shard"] == {"index": index, "count": 4}
            assert len(payload["cells"]) == 1

        serial_out = tmp_path / "serial.json"
        assert main([
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:4", "--out", str(serial_out),
        ]) == 0
        merged_out = tmp_path / "merged.json"
        assert main(common + ["--out", str(merged_out)]) == 0
        merged_text = capsys.readouterr().out
        assert "4/4 cells from cache" in merged_text

        def stable_cells(path):
            return [
                {k: v for k, v in cell.items() if k != "timings"}
                for cell in json.loads(path.read_text())["cells"]
            ]

        union = [
            stable_cells(tmp_path / f"shard{index}.json")[0] for index in range(4)
        ]
        assert union == stable_cells(serial_out)
        assert stable_cells(merged_out) == stable_cells(serial_out)

    def test_sweep_resume_skips_completed_cells(self, capsys, tmp_path):
        argv = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:2",
            "--cache", str(tmp_path / "cache"),
            "--journal", str(tmp_path / "journal.jsonl"),
            "--out", str(tmp_path / "results.json"),
        ]
        assert main(argv) == 0
        first_payload = (tmp_path / "results.json").read_text()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 resumed from journal" in out
        assert (tmp_path / "results.json").read_text() == first_payload

    def test_sweep_chaos_run_degrades_failures_into_the_payload(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:4",
            "--flaky-rates", "exception=1.0", "--retries", "1",
            "--retry-backoff", "0", "--max-failures", "-1", "--out", str(out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "4 FAILED" in captured
        assert "FAILED after 2 attempt(s)" in captured
        payload = json.loads(out.read_text())
        assert payload["failures"] == 4
        assert all(cell["cell_failure"] for cell in payload["cells"])


class TestMonitorFlags:
    def test_classify_monitor_prints_streaming_verdicts(self, capsys):
        assert main([
            "classify", "hyperledger", "--replicas", "3", "--duration", "30",
            "--seed", "3", "--monitor",
        ]) == 0
        out = capsys.readouterr().out
        assert "streaming monitor" in out
        assert "strong consistency: True" in out
        assert "eventual-prefix=True" in out

    def test_classify_without_monitor_stays_silent(self, capsys):
        assert main([
            "classify", "hyperledger", "--replicas", "3", "--duration", "30",
            "--seed", "3",
        ]) == 0
        assert "streaming monitor" not in capsys.readouterr().out

    def test_sweep_monitor_lands_in_json(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "20", "--seeds", "0:2", "--monitor", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        for cell in payload["cells"]:
            assert cell["spec"]["monitor"] is True
            assert set(cell["consistency"]["properties"]) == {
                "block-validity",
                "local-monotonic-read",
                "strong-prefix",
                "ever-growing-tree",
                "eventual-prefix",
            }


class TestTopologyFlags:
    def test_classify_topology_flag_runs(self, capsys):
        assert main([
            "classify", "bitcoin", "--replicas", "4", "--duration", "30",
            "--seed", "3", "--topology", "gossip:fanout=2",
        ]) == 0
        assert "blocks/replica" in capsys.readouterr().out

    def test_classify_topology_rejects_unknown_kind(self):
        with pytest.raises(SystemExit, match="unknown topology 'mesh2'"):
            main([
                "classify", "bitcoin", "--replicas", "3", "--duration", "10",
                "--topology", "mesh2",
            ])

    def test_topology_parse_forms(self):
        from repro.cli import _parse_topology

        assert _parse_topology("ring").kind == "ring"
        spec = _parse_topology("sharded:shards=3,cross_links=2")
        assert spec.kind == "sharded"
        assert spec.params == {"shards": 3, "cross_links": 2}
        spec = _parse_topology(
            '{"kind": "committee", "params": {"members": ["p0", "p1"]}}'
        )
        assert spec.params["members"] == ["p0", "p1"]
        # JSON list values survive the colon form: commas inside brackets
        # and quotes are not pair separators.
        spec = _parse_topology(
            'committee:members=["p0","p1"],include_observers=false'
        )
        assert spec.params == {"members": ["p0", "p1"], "include_observers": False}
        spec = _parse_topology('sharded:groups=[["p0","p1"],["p2"]],cross_links=1')
        assert spec.params == {"groups": [["p0", "p1"], ["p2"]], "cross_links": 1}
        with pytest.raises(SystemExit, match="not 'key=value'"):
            _parse_topology("gossip:fanout")

    def test_sweep_grids_over_topologies(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "bitcoin", "--replicas", "4",
            "--duration", "20", "--topologies", "full,gossip,ring",
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "topology=gossip" in printed
        payload = json.loads(out.read_text(encoding="utf-8"))
        kinds = [
            (cell["spec"].get("topology") or {"kind": None})["kind"]
            for cell in payload["cells"]
        ]
        assert kinds == ["full", "gossip", "ring"]

    def test_topologies_axis_rejects_parameterized_entries(self):
        with pytest.raises(SystemExit, match="bare registered kinds"):
            main([
                "sweep", "--protocol", "bitcoin", "--replicas", "3",
                "--duration", "10", "--topologies", "gossip:fanout=3,ring",
            ])

    def test_sweep_base_topology_applies_to_every_cell(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "bitcoin", "--replicas", "4",
            "--duration", "15", "--seeds", "0:2",
            "--topology", "gossip:fanout=2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert all(
            cell["spec"]["topology"] == {
                "kind": "gossip", "params": {"fanout": 2}, "seed": None,
            }
            for cell in payload["cells"]
        )


class TestFaultFlags:
    def test_classify_fault_flag_prints_degradation(self, capsys):
        assert main([
            "classify", "bitcoin", "--replicas", "4", "--duration", "60",
            "--seed", "3",
            "--fault", 'eclipse:victim="p2",at=10,until=30',
        ]) == 0
        out = capsys.readouterr().out
        assert "degradation monitor" in out
        assert "time_to_heal=" in out

    def test_classify_fault_rejects_unknown_kind(self):
        with pytest.raises(SystemExit, match="unknown fault 'gremlins'"):
            main([
                "classify", "bitcoin", "--replicas", "3", "--duration", "10",
                "--fault", "gremlins",
            ])

    def test_fault_parse_forms(self):
        from repro.cli import _parse_fault

        spec = _parse_fault("crash")
        assert spec.kind == "crash" and spec.params == {"at": {}}
        # The old spelling is still read, into the registry kinds.
        spec = _parse_fault('crash:crash_at={"p1": 30.0}')
        assert spec.kind == "crash" and spec.params == {"at": {"p1": 30.0}}
        spec = _parse_fault('byzantine:byzantine=["p2"],seed=4')
        assert (spec.kind, spec.params, spec.seed) == ("silent", {"members": ["p2"]}, 4)
        assert _parse_fault("byzantine").params == {"members": []}
        spec = _parse_fault(
            'partition:groups=[["p0","p1"],["p2","p3"]],at=10,heal_at=40'
        )
        assert spec.params == {
            "groups": [["p0", "p1"], ["p2", "p3"]], "at": 10, "heal_at": 40,
        }
        spec = _parse_fault(
            '{"kind": "churn", "params": {"leave": {"p4": 20.0}}}'
        )
        assert spec.kind == "churn" and spec.params == {"leave": {"p4": 20.0}}
        with pytest.raises(SystemExit, match="not 'key=value'"):
            _parse_fault("eclipse:victim")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--fault", "silent", "fault 'silent': missing a required argument: 'members'"),
            ("--fault", "partition", "fault 'partition': missing a required argument: 'groups'"),
            (
                "--fault",
                'churn:leave={"p1":10},rejoin={"p1":40}',
                "fault 'churn': got an unexpected keyword argument 'rejoin'",
            ),
            (
                "--topology",
                "gossip:bogus=3",
                "topology 'gossip': got an unexpected keyword argument 'bogus'",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ("classify", "sweep"))
    def test_bad_component_parameters_fail_before_any_run(
        self, tmp_path, command, flag, value, message
    ):
        """A missing or unknown constructor parameter is one usage error,
        like an unknown kind: a sweep stops before it runs a cell."""
        out = tmp_path / "results.json"
        argv = {
            "classify": ["classify", "bitcoin", "--duration", "10"],
            "sweep": [
                "sweep", "--protocol", "bitcoin", "--duration", "10",
                "--seeds", "0:2", "--out", str(out),
            ],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, value])
        assert excinfo.value.code == f"repro: error: {message}"
        assert not out.exists()

    def test_sweep_base_fault_applies_to_every_cell(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "bitcoin", "--replicas", "4",
            "--duration", "30", "--seeds", "0:2",
            "--fault", 'crash:crash_at={"p3": 10.0}', "--out", str(out),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert all(
            cell["spec"]["fault"] == {"kind": "crash", "params": {"at": {"p3": 10.0}}}
            and cell["protocol_name"] == "bitcoin"
            and "degradation" in cell
            for cell in payload["cells"]
        )


class TestCheckpointFlags:
    def test_parser_defaults(self):
        classify = build_parser().parse_args(["classify", "bitcoin"])
        assert classify.checkpoint_every is None
        assert classify.checkpoint_dir is None
        sweep = build_parser().parse_args(["sweep", "--protocol", "bitcoin"])
        assert sweep.checkpoint_every is None
        resume = build_parser().parse_args(["resume-run", "foo.ckpt"])
        assert resume.checkpoint == "foo.ckpt"

    def test_non_positive_knobs_are_rejected_loudly(self):
        with pytest.raises(SystemExit, match=r"--timeout must be > 0"):
            main(["sweep", "--protocol", "bitcoin", "--timeout", "-1"])
        with pytest.raises(SystemExit, match=r"--retries must be >= 0"):
            main(["sweep", "--protocol", "bitcoin", "--retries", "-2"])
        with pytest.raises(SystemExit, match=r"--checkpoint-every must be > 0"):
            main(["sweep", "--protocol", "bitcoin", "--checkpoint-every", "0"])
        with pytest.raises(SystemExit, match=r"--checkpoint-every must be > 0"):
            main(["classify", "bitcoin", "--checkpoint-every", "-5"])
        with pytest.raises(SystemExit, match=r"--checkpoint-every must be > 0"):
            main(["resume-run", "foo.ckpt", "--checkpoint-every", "0"])

    def test_serial_backend_cannot_checkpoint(self):
        with pytest.raises(SystemExit, match="requires a process backend"):
            main([
                "sweep", "--protocol", "bitcoin", "--backend", "serial",
                "--checkpoint-every", "100",
            ])

    def test_resume_run_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint at"):
            main(["resume-run", str(tmp_path / "absent.ckpt")])

    def test_classify_checkpoint_then_resume_run(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        argv = [
            "classify", "hyperledger", "--replicas", "3", "--duration", "40",
            "--seed", "3",
        ]
        assert main(argv) == 0
        clean_out = capsys.readouterr().out
        assert main(
            argv + ["--checkpoint-every", "150", "--checkpoint-dir", str(ckpt_dir)]
        ) == 0
        checkpointed_out = capsys.readouterr().out
        # Checkpointing must not perturb the classification itself.
        assert checkpointed_out == clean_out
        primary = [
            path for path in ckpt_dir.glob("*.ckpt")
            if not path.name.endswith(".prev.ckpt")
        ]
        assert len(primary) == 1
        assert main(["resume-run", str(primary[0])]) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out.startswith("resumed")
        # The resumed run re-derives the exact same classification.
        for line in clean_out.strip().splitlines():
            assert line in resumed_out

    def test_sweep_with_checkpointing_matches_plain_sweep(self, capsys, tmp_path):
        plain_out = tmp_path / "plain.json"
        ckpt_out = tmp_path / "ckpt.json"
        base = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:2",
        ]
        assert main(base + ["--out", str(plain_out)]) == 0
        assert main(base + [
            "--out", str(ckpt_out), "--checkpoint-every", "150",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
        ]) == 0
        capsys.readouterr()
        strip = lambda cells: [  # noqa: E731
            {k: v for k, v in cell.items() if k != "timings"} for cell in cells
        ]
        plain = json.loads(plain_out.read_text())
        ckpt = json.loads(ckpt_out.read_text())
        assert strip(plain["cells"]) == strip(ckpt["cells"])
        assert list((tmp_path / "ckpts").glob("*.ckpt"))
