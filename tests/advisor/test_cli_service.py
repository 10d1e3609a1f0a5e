"""The ``gpa-advise serve`` / ``gpa-advise submit`` subcommands.

The serve loop runs in a thread with an injected stop event (the signal
handlers it would install in a real process can only live on the main
thread), talking over a real localhost socket to the submit side — the same
wiring the CI ``service-smoke`` job exercises from the shell.
"""

import threading
import time

import pytest

from repro.advisor import cli


@pytest.fixture
def serve(tmp_path):
    """A running `gpa-advise serve --port 0` on its own thread."""
    ready_file = tmp_path / "ready.txt"
    stop = threading.Event()
    exit_codes = []

    def run():
        exit_codes.append(
            cli._serve_main(
                [
                    "--port", "0", "--inline", "--workers", "2",
                    "--queue-size", "16",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--ready-file", str(ready_file),
                ],
                stop=stop,
            )
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while not (ready_file.exists() and ready_file.read_text().strip()):
        assert time.monotonic() < deadline, "daemon never became ready"
        assert thread.is_alive(), "serve exited before becoming ready"
        time.sleep(0.05)
    host, port, pid = ready_file.read_text().split()
    yield f"http://{host}:{port}", stop, thread, exit_codes
    stop.set()
    thread.join(30.0)


class TestServeSubmit:
    def test_submit_output_is_byte_identical_to_inline(self, serve, capsys):
        url, _, _, _ = serve
        case = "rodinia/hotspot:strength_reduction"
        assert cli.main(["--case", case, "--output", "json"]) == 0
        inline_output = capsys.readouterr().out
        assert cli.main(
            ["submit", "--url", url, "--case", case, "--output", "json"]
        ) == 0
        service_output = capsys.readouterr().out
        assert service_output == inline_output

    def test_submit_healthz_and_stats(self, serve, capsys):
        url, _, _, _ = serve
        assert cli.main(["submit", "--url", url, "--healthz"]) == 0
        health = capsys.readouterr().out
        assert '"status": "ok"' in health
        assert cli.main(["submit", "--url", url, "--stats"]) == 0
        stats = capsys.readouterr().out
        assert '"queue_capacity": 16' in stats

    def test_submit_batch_jsonl(self, serve, capsys):
        import json

        url, _, _, _ = serve
        assert cli.main(
            ["submit", "--url", url, "--all", "--limit", "2",
             "--output", "jsonl"]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 2
        assert [line["index"] for line in lines] == [0, 1]
        assert all(line["kind"] == "advising_result" for line in lines)

    def test_submit_all_limit_zero_renders_empty_sweep(self, serve, capsys):
        # Mirrors the inline CLI: an empty selection exits 0 with an empty
        # table instead of posting a batch the daemon would 400.
        url, _, _, _ = serve
        assert cli.main(
            ["submit", "--url", url, "--all", "--limit", "0"]
        ) == 0
        assert "0/0 cases ok" in capsys.readouterr().out

    def test_serve_drains_and_exits_zero(self, serve):
        url, stop, thread, exit_codes = serve
        assert cli.main(
            ["submit", "--url", url, "--case",
             "rodinia/hotspot:strength_reduction", "--output", "jsonl"]
        ) == 0
        stop.set()
        thread.join(30.0)
        assert not thread.is_alive()
        assert exit_codes == [0]
        # The socket is gone: a late submit fails cleanly, not with a hang.
        assert cli.main(
            ["submit", "--url", url, "--healthz"]
        ) == 1


class TestSubmitValidation:
    def test_unknown_case_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["submit", "--case", "rodinia/nope:zilch"])
        assert excinfo.value.code == 2

    def test_no_action_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["submit"])
        assert excinfo.value.code == 2

    def test_conflicting_actions(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["submit", "--case", "rodinia/hotspot:strength_reduction",
                 "--all"]
            )
        assert excinfo.value.code == 2

    def test_limit_requires_all(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["submit", "--case", "rodinia/hotspot:strength_reduction",
                 "--limit", "3"]
            )
        assert excinfo.value.code == 2

    def test_bad_numeric_flags(self):
        for flags in (
            ["--timeout", "0"],
            ["--poll", "-1"],
            ["--top", "0"],
            ["--sample-period", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(
                    ["submit", "--case",
                     "rodinia/hotspot:strength_reduction", *flags]
                )
            assert excinfo.value.code == 2, flags

    def test_unreachable_daemon_exits_one(self, capsys):
        code = cli.main(
            ["submit", "--url", "http://127.0.0.1:9", "--healthz"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestServeValidation:
    def test_bad_serve_flags(self):
        for flags in (
            ["--workers", "0"],
            ["--queue-size", "0"],
            ["--job-ttl", "0"],
            ["--sample-period", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["serve", *flags])
            assert excinfo.value.code == 2, flags

    def test_removed_serve_flags_exit_two(self, capsys):
        # Coalescing is always on and eviction runs on every store access:
        # neither changes an answer, so neither has a flag.
        for flags in (["--no-coalesce"], ["--eviction-interval", "5"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["serve", *flags])
            assert excinfo.value.code == 2, flags
            assert "unrecognized arguments" in capsys.readouterr().err
