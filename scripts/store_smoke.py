"""CI smoke test: SIGKILL a durable ``repro serve``, restart, compare.

The store's headline guarantee, exercised the hard way: a real
``repro serve --data-dir`` subprocess is killed with ``SIGKILL`` —
no drain, no atexit, mid-flight buffers lost — immediately after its
last acknowledged append. Before the appends a second standing query is
registered and dropped, so the log holds a ``standing_dropped`` record
too. A second server over the same directory must come back with every
acknowledged stream length and the client's standing catalogue — each
value, armed flag, and fired count bit-identical to what the client
recorded before the kill — and ``repro store recover --verify`` must
agree.
Exits non-zero on any divergence; the calling CI step wraps the whole
thing in a hard ``timeout``.

Usage::

    PYTHONPATH=src python scripts/store_smoke.py [--appends N]
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.automata.regex import regex_to_dfa  # noqa: E402
from repro.io.json_format import query_to_dict, sequence_to_dict  # noqa: E402
from repro.markov.builders import homogeneous  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.transducers.library import accept_filter  # noqa: E402

ROWS = {"a": {"a": 0.7, "b": 0.3}, "b": {"a": 0.4, "b": 0.6}}


def wait_for_socket(path: pathlib.Path, process, deadline_s: float = 20.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with code {process.returncode}")
        if path.exists():
            try:
                ServeClient.connect_unix(str(path), timeout=2.0).close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    raise SystemExit(f"server socket {path} did not come up in {deadline_s}s")


def start_server(socket_path: pathlib.Path, data_dir: pathlib.Path):
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            str(socket_path),
            "--shards",
            "2",
            "--data-dir",
            str(data_dir),
            "--max-seconds",
            "120",  # belt to the CI step's timeout braces
        ],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    wait_for_socket(socket_path, process)
    return process


def standing_snapshot(client) -> dict:
    return {
        entry["name"]: {
            "value": entry["value"],
            "armed": entry["armed"],
            "alerts_fired": entry["alerts_fired"],
        }
        for entry in client.call("stats")["standing"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--appends", type=int, default=20)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = pathlib.Path(tmp) / "data"
        socket_path = pathlib.Path(tmp) / "a.sock"
        process = start_server(socket_path, data_dir)
        try:
            with ServeClient.connect_unix(str(socket_path)) as client:
                assert client.call("ping")["durable"] is True
                sequence = homogeneous({"a": 0.6, "b": 0.4}, ROWS, 2)
                client.call(
                    "register_stream", name="tag", sequence=sequence_to_dict(sequence)
                )
                query = accept_filter(regex_to_dfa("(a|b)*ab(a|b)*", "ab"))
                client.call(
                    "register_standing_query",
                    name="saw-ab",
                    stream="tag",
                    query=query_to_dict(query),
                    kind="answer",
                    output=[],
                    threshold=0.9,
                )
                client.call(
                    "register_standing_query",
                    name="saw-b",
                    stream="tag",
                    query=query_to_dict(accept_filter(regex_to_dfa("(a|b)*b(a|b)*", "ab"))),
                    kind="monitor",
                    threshold=0.5,
                )
                client.call("drop_standing_query", name="saw-b")
                final_length = None
                for _ in range(args.appends):
                    final_length = client.call(
                        "append", stream="tag", transition=ROWS
                    )["length"]
                expected = standing_snapshot(client)
                print(
                    f"smoke: {args.appends} appends acknowledged "
                    f"(length {final_length}), killing -9"
                )

            process.send_signal(signal.SIGKILL)
            process.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        socket_path = pathlib.Path(tmp) / "b.sock"
        process = start_server(socket_path, data_dir)
        try:
            with ServeClient.connect_unix(str(socket_path)) as client:
                stats = client.call("stats")
                recovered = stats["recovered"]
                assert recovered["streams"] == 1, recovered
                assert recovered["standing_queries"] == 1, recovered
                assert standing_snapshot(client) == expected, (
                    standing_snapshot(client),
                    expected,
                )
                grown = client.call("append", stream="tag", transition=ROWS)
                assert grown["length"] == final_length + 1, grown
                print(
                    f"smoke: recovered bit-identical at LSN "
                    f"{recovered['last_lsn']} "
                    f"({recovered['truncated_bytes']} torn bytes truncated)"
                )
                client.call("shutdown")
            code = process.wait(timeout=30)
            assert code == 0, f"server exited with {code}"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

        verify = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "store",
                "recover",
                str(data_dir),
                "--verify",
            ],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        sys.stdout.write(verify.stdout)
        sys.stderr.write(verify.stderr)
        assert verify.returncode == 0, "store recover --verify failed"
        assert f", {len(expected)} standing\n" in verify.stdout, verify.stdout
        for name in expected:
            assert f"  standing {name}: " in verify.stdout, verify.stdout
        print("smoke: PASS")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
