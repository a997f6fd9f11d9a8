"""The coordinator-side live status endpoint."""

import json
import socket

import pytest

from repro.api import ExplorationLimits
from repro.cluster import ClusterConfig, ThreadedCloud9Cluster
from repro.obs.status import StatusServer, parse_status_address, read_status
from repro.testing import SymbolicTest

from conftest import branchy_program


class TestParseAddress:
    def test_host_port(self):
        assert parse_status_address("0.0.0.0:4850") == ("0.0.0.0", 4850)

    def test_bare_port_defaults_loopback(self):
        assert parse_status_address("4850") == ("127.0.0.1", 4850)

    def test_bad_port_raises(self):
        with pytest.raises(ValueError):
            parse_status_address("host:notaport")


class TestStatusServer:
    def test_serves_latest_snapshot(self):
        server = StatusServer("127.0.0.1:0")
        try:
            server.update({"round": 1, "coverage_percent": 10.0})
            server.update({"round": 2, "coverage_percent": 25.0})
            status = read_status(server.address)
            assert status["round"] == 2
            assert status["coverage_percent"] == 25.0
            assert status["updated"] >= 0.0  # staleness age rides along
        finally:
            server.close()

    def test_one_json_line_per_connection(self):
        """The wire protocol is healthz-style: connect, read one line, EOF."""
        server = StatusServer("127.0.0.1:0")
        try:
            server.update({"round": 7})
            with socket.create_connection(server.address, timeout=2.0) as sock:
                data = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            text = data.decode("utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            assert json.loads(text)["round"] == 7
        finally:
            server.close()

    def test_empty_snapshot_before_first_update(self):
        server = StatusServer("127.0.0.1:0")
        try:
            status = read_status(server.address)
            assert "updated" in status
        finally:
            server.close()

    def test_read_after_close_returns_none(self):
        server = StatusServer("127.0.0.1:0")
        address = server.address
        server.close()
        assert read_status(address, timeout=0.5) is None


class TestInProcessBackendsServeStatus:
    """``status_listen=`` works on every backend through the shared core
    (it used to be a process-backend-only feature)."""

    def _build(self, cluster_class=None):
        test = SymbolicTest("branchy", branchy_program(3))
        config = ClusterConfig(num_workers=2, instructions_per_round=40,
                               status_listen="127.0.0.1:0")
        return test.build_cluster(config, cluster_class=cluster_class)

    def _run_and_snapshot(self, cluster):
        seen = {}

        def hook(round_index, cl):
            if round_index == 2 and not seen:
                seen.update(read_status(cl.status_address) or {})

        cluster.round_hook = hook
        cluster.run(limits=ExplorationLimits(max_rounds=10))
        return seen

    def test_cluster_backend_serves_live_status(self):
        cluster = self._build()
        seen = self._run_and_snapshot(cluster)
        assert seen["backend"] == "cluster"
        assert seen["round"] >= 0
        assert seen["live_workers"] == 2  # an int count, as on process
        assert seen["draining_workers"] == 0
        assert isinstance(seen["queues"], dict)
        # Torn down with the run, exactly like the tracer.
        assert cluster.status_address is None

    def test_threaded_backend_serves_live_status(self):
        cluster = self._build(cluster_class=ThreadedCloud9Cluster)
        seen = self._run_and_snapshot(cluster)
        assert seen["backend"] == "threaded"
        assert seen["live_workers"] == 2
        assert cluster.status_address is None

    def test_no_listener_without_status_listen(self):
        test = SymbolicTest("branchy", branchy_program(2))
        cluster = test.build_cluster(ClusterConfig(num_workers=2))
        assert cluster.status_address is None
        cluster.run(limits=ExplorationLimits(max_rounds=5))
        assert cluster.status_address is None
