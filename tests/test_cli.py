"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.analysis.report import render_classification_table
from repro.cli import build_parser, main
from repro.engine import ExperimentSpec
from repro.protocols.classification import ClassificationResult, reproduce_table1


def assert_refused(capsys, command, fragment, call, *args):
    """``call(*args)`` refuses a flag: exit 2 and one ``repro <command>:
    error: ...`` line on stderr that contains ``fragment``."""
    with pytest.raises(SystemExit) as excinfo:
        call(*args)
    assert excinfo.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {command}: error: ")
    assert fragment in lines[0]


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

    def test_a_closed_stdout_ends_the_command_without_a_traceback(self):
        """``python -m repro hierarchy | true``: the reader is gone before
        the output is written, so the command exits non-zero, silently."""
        source = str(Path(sys.modules["repro"].__file__).parents[1])
        command = subprocess.Popen(
            [sys.executable, "-m", "repro", "hierarchy"],
            env={**os.environ, "PYTHONPATH": source},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        command.stdout.close()  # long before the interpreter has imported repro
        _, err = command.communicate(timeout=60)
        assert command.returncode != 0
        assert err == b""

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

    @pytest.mark.parametrize("backend", ["warp", "shard", "flaky"])
    def test_sweep_backend_is_serial_or_pool(self, capsys, backend):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--protocol", "bitcoin", "--backend", backend])
        assert excinfo.value.code == 2  # an argparse usage error
        err = capsys.readouterr().err
        assert f"invalid choice: '{backend}'" in err
        assert "'serial', 'pool'" in err

    def test_sweep_shard_flag_validation(self, capsys):
        for text, message in (
            ("four", "cannot parse --shard-index 'four' (expected I/K, e.g. 0/4)"),
            ("4/4", "--shard-index '4/4' out of range (need 0 <= I < K)"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--protocol", "bitcoin", "--shard-index", text])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err == f"repro sweep: error: {message}\n"

    def test_sweep_shard_runs_on_the_pool_backend(self, capsys, tmp_path):
        common = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "30", "--seeds", "0:4",
        ]
        shard_out, serial_out = tmp_path / "shard.json", tmp_path / "serial.json"
        assert main(common + [
            "--backend", "pool", "--jobs", "2", "--shard-index", "0/2", "--out", str(shard_out),
        ]) == 0
        assert "[shard 0/2: 2/4 grid cells]" in capsys.readouterr().out
        assert main(common + ["--out", str(serial_out)]) == 0
        capsys.readouterr()

        def stable_cells(path):
            return [
                {k: v for k, v in cell.items() if k != "timings"}
                for cell in json.loads(path.read_text())["cells"]
            ]

        assert stable_cells(shard_out) == stable_cells(serial_out)[0::2]

    def test_sharded_chaos_journal_matches_the_full_sweep_on_its_cells(
        self, capsys, tmp_path
    ):
        """Injections are drawn per cell digest and attempt, so a shard
        journals exactly the lines the full sweep journals for its cells."""
        common = [
            "sweep", "--protocol", "hyperledger", "--replicas", "3",
            "--duration", "20", "--seeds", "0:6", "--flaky-rates", "exception=0.8",
            "--retries", "2", "--retry-backoff", "0", "--max-failures", "-1",
            "--out", str(tmp_path / "results.json"),
        ]
        shard_journal, full_journal = tmp_path / "shard.jsonl", tmp_path / "full.jsonl"
        assert main(common + ["--shard-index", "1/2", "--journal", str(shard_journal)]) == 0
        assert main(common + ["--journal", str(full_journal)]) == 0
        capsys.readouterr()
        shard_lines = shard_journal.read_text().splitlines()
        full_lines = full_journal.read_text().splitlines()
        assert shard_lines == [
            line for line in full_lines if json.loads(line)["index"] % 2 == 1
        ]
        assert any(json.loads(line)["attempts"] > 1 for line in shard_lines)

    def test_sweep_resume_flag_validation(self, capsys):
        assert_refused(
            capsys, "sweep", "requires --journal",
            main, ["sweep", "--protocol", "bitcoin", "--resume", "--cache"],
        )
        assert_refused(
            capsys, "sweep", "requires --cache",
            main, ["sweep", "--protocol", "bitcoin", "--resume", "--journal"],
        )

    def test_sweep_flaky_rates_validation(self, capsys):
        assert_refused(
            capsys, "sweep", "unknown injection kind",
            main, ["sweep", "--protocol", "bitcoin", "--flaky-rates", "gamma-ray=0.5"],
        )
        assert_refused(
            capsys, "sweep", "cannot parse --flaky-rates",
            main, ["sweep", "--protocol", "bitcoin", "--flaky-rates", "exception"],
        )

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
    def test_classify_monitor_prints_the_verdicts(self, capsys):
        assert main([
            "classify", "hyperledger", "--replicas", "3", "--duration", "30",
            "--seed", "3", "--monitor",
        ]) == 0
        out = capsys.readouterr().out
        assert "consistency monitor (post-hoc, raw history):" in out
        assert "strong consistency: True" in out
        assert "eventual-prefix=True" in out

    def test_classify_without_monitor_stays_silent(self, capsys):
        assert main([
            "classify", "hyperledger", "--replicas", "3", "--duration", "30",
            "--seed", "3",
        ]) == 0
        assert "consistency monitor (post-hoc, raw history):" not in capsys.readouterr().out

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

    def test_classify_topology_rejects_unknown_kind(self, capsys):
        assert_refused(
            capsys, "classify", "unknown topology 'mesh2'",
            main, [
                "classify", "bitcoin", "--replicas", "3", "--duration", "10",
                "--topology", "mesh2",
            ],
        )

    def test_topology_parse_forms(self, capsys):
        from repro.cli import _parse_topology

        assert _parse_topology("sweep", "ring").kind == "ring"
        spec = _parse_topology("sweep", "sharded:shards=3,cross_links=2")
        assert spec.kind == "sharded"
        assert spec.params == {"shards": 3, "cross_links": 2}
        spec = _parse_topology(
            "sweep", '{"kind": "committee", "params": {"members": ["p0", "p1"]}}'
        )
        assert spec.params["members"] == ["p0", "p1"]
        # JSON list values survive the colon form: commas inside brackets
        # and quotes are not pair separators.
        spec = _parse_topology(
            "sweep", 'committee:members=["p0","p1"],include_observers=false'
        )
        assert spec.params == {"members": ["p0", "p1"], "include_observers": False}
        spec = _parse_topology("sweep", 'sharded:groups=[["p0","p1"],["p2"]],cross_links=1')
        assert spec.params == {"groups": [["p0", "p1"], ["p2"]], "cross_links": 1}
        assert_refused(
            capsys, "classify", "topology parameter 'fanout' is not 'key=value'",
            _parse_topology, "classify", "gossip:fanout",
        )
        assert_refused(
            capsys, "sweep", "cannot parse topology JSON",
            _parse_topology, "sweep", '{"kind": "ring"',
        )
        assert_refused(
            capsys, "sweep", "unknown topology key(s) 'bogus'",
            _parse_topology, "sweep", '{"kind": "ring", "bogus": 1}',
        )

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

    def test_topologies_axis_rejects_parameterized_entries(self, capsys):
        assert_refused(
            capsys, "sweep", "bare registered kinds",
            main, [
                "sweep", "--protocol", "bitcoin", "--replicas", "3",
                "--duration", "10", "--topologies", "gossip:fanout=3,ring",
            ],
        )

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

    def test_classify_fault_rejects_unknown_kind(self, capsys):
        assert_refused(
            capsys, "classify", "unknown fault 'gremlins'",
            main, [
                "classify", "bitcoin", "--replicas", "3", "--duration", "10",
                "--fault", "gremlins",
            ],
        )

    def test_fault_parse_forms(self, capsys):
        from repro.cli import _parse_fault

        spec = _parse_fault("classify", 'crash:at={"p1": 30.0}')
        assert spec.kind == "crash" and spec.params == {"at": {"p1": 30.0}}
        spec = _parse_fault("classify", 'silent:members=["p2"],seed=4')
        assert (spec.kind, spec.params, spec.seed) == ("silent", {"members": ["p2"]}, 4)
        # The pre-registry spelling is refused by name.
        assert_refused(
            capsys, "classify", "unexpected keyword argument 'crash_at'",
            _parse_fault, "classify", 'crash:crash_at={"p1": 30.0}',
        )
        assert_refused(
            capsys, "sweep", "unknown fault 'byzantine'",
            _parse_fault, "sweep", 'byzantine:byzantine=["p2"],seed=4',
        )
        spec = _parse_fault(
            "sweep", 'partition:groups=[["p0","p1"],["p2","p3"]],at=10,heal_at=40'
        )
        assert spec.params == {
            "groups": [["p0", "p1"], ["p2", "p3"]], "at": 10, "heal_at": 40,
        }
        spec = _parse_fault(
            "sweep", '{"kind": "churn", "params": {"leave": {"p4": 20.0}}}'
        )
        assert spec.kind == "churn" and spec.params == {"leave": {"p4": 20.0}}
        assert_refused(
            capsys, "classify", "fault parameter 'victim' is not 'key=value'",
            _parse_fault, "classify", "eclipse:victim",
        )
        assert_refused(
            capsys, "classify", "fault '{\"kind\": \"crash\", \"params\": 5}': ",
            _parse_fault, "classify", '{"kind": "crash", "params": 5}',
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--fault", "silent", "fault 'silent': missing a required argument: 'members'"),
            ("--fault", "partition", "fault 'partition': missing a required argument: 'groups'"),
            (
                "--fault",
                'crash:crash_at={"p1":30}',
                "fault 'crash': got an unexpected keyword argument 'crash_at'",
            ),
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
            # Wrongly typed values: the model is built once, before any run.
            ("--fault", "crash:at=10", "fault 'crash': at must map replica ids to times, got int"),
            ("--fault", "partition:groups=3", "fault 'partition': 'int' object is not iterable"),
            ("--fault", "silent:members=5", "fault 'silent': 'int' object is not iterable"),
            # A bare string is not split into one-character replica ids.
            (
                "--fault",
                "silent:members=p9",
                "fault 'silent': members must be a list of replica ids, got str",
            ),
            (
                "--fault",
                "partition:groups=[[p0,p1],[p2,p7]]",
                "fault 'partition': groups must be a list of replica-id lists, got str",
            ),
            (
                "--fault",
                "churn:leave=3",
                "fault 'churn': leave must map replica ids to times, got int",
            ),
            (
                "--topology",
                'gossip:fanout="abc"',
                "topology 'gossip': '<' not supported between instances of 'str' and 'int'",
            ),
            # A fault time must be finite and non-negative: a NaN breaks the event
            # order, an infinity never fires.
            (
                "--fault",
                'crash:at={"p1": NaN}',
                "fault 'crash': at['p1'] must be a finite non-negative time, got nan",
            ),
            (
                "--fault",
                'crash:at={"p1": Infinity}',
                "fault 'crash': at['p1'] must be a finite non-negative time, got inf",
            ),
            (
                "--fault",
                'crash:at={"p1": -5}',
                "fault 'crash': at['p1'] must be a finite non-negative time, got -5.0",
            ),
            (
                "--fault",
                'churn:leave={"p1": 5},join={"p1": Infinity}',
                "fault 'churn': join['p1'] must be a finite non-negative time, got inf",
            ),
            (
                "--fault",
                'partition:groups=[["p0"]],at=NaN',
                "fault 'partition': at must be a finite non-negative time, got nan",
            ),
            (
                "--fault",
                'partition:groups=[["p0"]],heal_at=-Infinity',
                "fault 'partition': heal_at must be a finite non-negative time, got -inf",
            ),
            (
                "--fault",
                "eclipse:victim=p1,until=Infinity",
                "fault 'eclipse': until must be a finite non-negative time, got inf",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ("classify", "sweep"))
    def test_bad_component_parameters_fail_before_any_run(
        self, capsys, tmp_path, command, flag, value, message
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
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == f"repro {command}: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("duration", ("nan", "-5", "inf"))
    @pytest.mark.parametrize("command", ("classify", "sweep"))
    def test_a_duration_that_is_not_a_finite_time_is_a_usage_error(
        self, capsys, tmp_path, command, duration
    ):
        out = tmp_path / "results.json"
        argv = {
            "classify": ["classify", "bitcoin"],
            "sweep": ["sweep", "--protocol", "bitcoin", "--seeds", "0:2", "--out", str(out)],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--duration", duration])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == (
            f"repro {command}: error: --duration must be a finite number >= 0, "
            f"got {float(duration)!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("delays", ("nan", "inf", "1.0,nan"))
    def test_a_delay_that_is_not_finite_is_a_usage_error_before_any_run(
        self, capsys, tmp_path, delays
    ):
        out = tmp_path / "results.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--protocol", "bitcoin", "--duration", "20",
                f"--delays={delays}", "--out", str(out),
            ])
        assert excinfo.value.code == 2
        bad = delays.rpartition(",")[2]
        assert capsys.readouterr().err == (
            f"repro sweep: error: channel 'synchronous': delta must be finite, got {bad}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, unknown",
        [('silent:members=["p9"]', "['p9']"), ('crash:at={"p9": 5, "p4": 2}', "['p4', 'p9']")],
    )
    @pytest.mark.parametrize("command", ("classify", "sweep"))
    def test_unknown_fault_members_are_a_usage_error_before_any_run(
        self, capsys, tmp_path, command, fault, unknown
    ):
        out = tmp_path / "results.json"
        argv = {
            "classify": ["classify", "bitcoin", "--replicas", "4", "--duration", "10"],
            # The smallest count of the axis decides: p4 exists at 6 only.
            "sweep": [
                "sweep", "--protocol", "bitcoin", "--replica-counts", "6,4",
                "--duration", "10", "--seeds", "0:2", "--out", str(out),
            ],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--fault", fault])
        assert excinfo.value.code == 2
        kind = fault.partition(":")[0]
        assert capsys.readouterr().err == (
            f"repro {command}: error: fault {kind!r}: unknown replicas {unknown} "
            "(a run of 4 replicas has p0..p3)\n"
        )
        assert not out.exists()

    def test_sweep_base_fault_applies_to_every_cell(self, capsys, tmp_path):
        out = tmp_path / "results.json"
        assert main([
            "sweep", "--protocol", "bitcoin", "--replicas", "4",
            "--duration", "30", "--seeds", "0:2",
            "--fault", 'crash:at={"p3": 10.0}', "--out", str(out),
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

    def test_non_positive_knobs_are_rejected_loudly(self, capsys):
        for argv, message in [
            (
                ["sweep", "--protocol", "bitcoin", "--timeout", "-1"],
                "--timeout must be > 0, got -1.0",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--timeout", "0"],
                "--timeout must be > 0, got 0.0",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--checkpoint-every", "0"],
                "--checkpoint-every must be > 0, got 0",
            ),
            (
                ["classify", "bitcoin", "--checkpoint-every", "-5"],
                "--checkpoint-every must be > 0, got -5",
            ),
            (
                ["resume-run", "foo.ckpt", "--checkpoint-every", "0"],
                "--checkpoint-every must be > 0, got 0",
            ),
        ]:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err == f"repro {argv[0]}: error: {message}\n"

    def test_serial_backend_cannot_checkpoint(self, capsys):
        assert_refused(
            capsys, "sweep", "requires a process backend",
            main, [
                "sweep", "--protocol", "bitcoin", "--backend", "serial",
                "--checkpoint-every", "100",
            ],
        )

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


class TestCountFlags:
    """A count no run can take is one usage line, exit 2, before any cell runs."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "bitcoin", "--replicas", "0"], "--replicas must be >= 1, got 0"),
            (["table1", "--replicas", "0"], "--replicas must be >= 1, got 0"),
            (
                ["sweep", "--protocol", "bitcoin", "--replicas", "0"],
                "--replicas must be >= 1, got 0",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--replica-counts", "3,0"],
                "--replica-counts must be >= 1, got 0",
            ),
            (["sweep", "--protocol", "bitcoin", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["sweep", "--protocol", "bitcoin", "--jobs", "-2"], "--jobs must be >= 1, got -2"),
            (["fork-sweep", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (
                ["sweep", "--protocol", "bitcoin", "--retries", "-1"],
                "--retries must be >= 0, got -1",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--shard-index", "2/2"],
                "--shard-index '2/2' out of range (need 0 <= I < K)",
            ),
            (["sweep", "--protocol", "bitcoin", "--seeds", "3:1"], "--seeds '3:1' gives no values"),
            (["sweep", "--protocol", "bitcoin", "--delays", ","], "--delays ',' gives no values"),
            (
                ["sweep", "--protocol", "bitcoin", "--token-rates", "nan"],
                "--token-rates must be a finite number >= 0, got nan",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--token-rates", "0.4,inf"],
                "--token-rates must be a finite number >= 0, got inf",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--token-rates", "-0.5"],
                "--token-rates must be a finite number >= 0, got -0.5",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--token-rates=-inf"],
                "--token-rates must be a finite number >= 0, got -inf",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--clients", "10", "--client-rate", "-1"],
                "--client-rate must be a finite number >= 0, got -1.0",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--clients", "10", "--client-rate", "nan"],
                "--client-rate must be a finite number >= 0, got nan",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--clients", "10", "--client-rate", "inf"],
                "--client-rate must be a finite number >= 0, got inf",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--clients", "10", "--client-rate=-inf"],
                "--client-rate must be a finite number >= 0, got -inf",
            ),
            (
                ["sweep", "--protocol", "bitcoin", "--timeout", "nan"],
                "--timeout must be > 0, got nan",
            ),
        ],
    )
    def test_a_bad_count_is_a_usage_error_before_any_cell(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(ExperimentSpec, "execute", no_run)
        out = tmp_path / "results.json"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == f"repro {argv[0]}: error: {message}\n"
        assert not out.exists()
