"""Tests for metrics export (Prometheus text + JSON)."""

import json
import re

import pytest

from repro.core import ConfigurationError, MetricsRegistry
from repro.core.metrics import Histogram
from repro.obs import (
    render_json,
    render_prometheus,
    sanitize_metric_name,
    snapshot_dict,
    write_snapshot,
)

# One Prometheus exposition line: name, optional {labels}, numeric value.
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})? "
    r"-?[0-9.e+-]+(inf|nan)?$"
)


def loaded_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("kv.puts").inc(12)
    reg.counter("pubsub.deliveries").inc(3)
    reg.gauge("pool.resident").set(7)
    for v in range(1, 101):
        reg.histogram("txn.latency_s").observe(v / 100.0)
    return reg


class TestPrometheusFormat:
    def test_every_line_parses(self):
        text = render_prometheus(loaded_registry())
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+$", line)
            else:
                assert PROM_LINE.match(line), f"unparseable line: {line!r}"

    def test_names_are_sanitized(self):
        text = render_prometheus(loaded_registry())
        assert "kv_puts 12" in text
        assert "kv.puts" not in text

    def test_counter_gauge_and_summary_types(self):
        text = render_prometheus(loaded_registry())
        assert "# TYPE kv_puts counter" in text
        assert "# TYPE pool_resident gauge" in text
        assert "# TYPE txn_latency_s summary" in text
        assert "txn_latency_s_count 100" in text

    def test_quantiles_match_histogram(self):
        reg = loaded_registry()
        hist = reg.histogram("txn.latency_s")
        text = render_prometheus(reg)
        for q in (0.5, 0.9, 0.95, 0.99):
            match = re.search(
                rf'txn_latency_s{{quantile="{q}"}} ([0-9.e+-]+)', text
            )
            assert match, f"missing quantile {q}"
            assert float(match.group(1)) == pytest.approx(hist.quantile(q))

    def test_empty_histogram_exports_count_but_no_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("never.observed")
        text = render_prometheus(reg)
        assert "never_observed_count 0" in text
        assert "quantile" not in text

    def test_prefix(self):
        text = render_prometheus(loaded_registry(), prefix="repro")
        assert "repro_kv_puts 12" in text

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("kv.puts") == "kv_puts"
        assert sanitize_metric_name("a-b c/d") == "a_b_c_d"
        assert sanitize_metric_name("0leading") == "_0leading"


class TestJsonSnapshot:
    def test_structure(self):
        snap = snapshot_dict(loaded_registry())
        assert snap["counters"]["kv.puts"] == 12
        assert snap["gauges"]["pool.resident"] == 7
        hist = snap["histograms"]["txn.latency_s"]
        assert hist["count"] == 100
        assert hist["p50"] == pytest.approx(0.505)

    def test_render_json_round_trips(self):
        snap = json.loads(render_json(loaded_registry()))
        assert snap["counters"]["pubsub.deliveries"] == 3

    def test_empty_histogram_quantiles_are_null(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        snap = snapshot_dict(reg)
        assert snap["histograms"]["h"]["count"] == 0
        assert snap["histograms"]["h"]["p99"] is None

    def test_write_snapshot(self, tmp_path):
        prom_path, json_path = write_snapshot(
            loaded_registry(), tmp_path / "artifacts", basename="run1"
        )
        assert prom_path.name == "run1.prom"
        assert "kv_puts 12" in prom_path.read_text()
        assert json.loads(json_path.read_text())["counters"]["kv.puts"] == 12


class TestHistogramEmptyQuantile:
    def test_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            Histogram().quantile(0.5)

    def test_export_paths_never_raise_on_empty(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        render_prometheus(reg)
        render_json(reg)
        reg.snapshot()

