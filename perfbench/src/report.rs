//! The metric tables `BENCHMARK.json` declares, and the result line.

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
/// Per-instance values are medians over the run's instances.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("decide_ms_p50", "ms"),
    ("decide_ms_p90", "ms"),
    ("virtual_ticks_p50", "ticks"),
    ("virtual_ticks_p90", "ticks"),
    ("messages", "count"),
    ("bytes", "B"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.batches", "count"),
    ("sim.msgs_per_batch", "msgs/batch"),
    ("sim.peak_inflight_bytes", "B"),
    ("sim.allocs", "count"),
    ("stack.s", "s"),
    ("stack.ns_per_msg", "ns"),
    ("stack.allocs", "count"),
    ("stack.allocs_per_msg", "allocs/msg"),
    ("handle.rb.ns_per_msg", "ns"),
    ("handle.mw.ns_per_msg", "ns"),
    ("handle.svss.ns_per_msg", "ns"),
    ("handle.coin.ns_per_msg", "ns"),
    ("handle.aba.ns_per_msg", "ns"),
    ("handle.mixed_batch_share", "ratio"),
    ("rb.msgs", "count"),
    ("mw.msgs", "count"),
    ("svss.msgs", "count"),
    ("coin.msgs", "count"),
    ("aba.msgs", "count"),
    ("rb.bytes", "B"),
    ("mw.bytes", "B"),
    ("svss.bytes", "B"),
    ("coin.bytes", "B"),
    ("aba.bytes", "B"),
    ("codec.encode_ns_per_msg", "ns"),
    ("codec.decode_ns_per_msg", "ns"),
    ("codec.frame_len_ns_per_msg", "ns"),
    ("codec.bytes_per_msg", "B/msg"),
    ("field.interpolate_ns.t1", "ns"),
    ("field.interpolate_ns.t2", "ns"),
    ("field.interpolate_ns.t31", "ns"),
    ("field.interpolate_at_zero_ns.t1", "ns"),
    ("field.interpolate_at_zero_ns.t2", "ns"),
    ("field.interpolate_at_zero_ns.t31", "ns"),
    ("field.batch_verify_ns.t1", "ns"),
    ("field.batch_verify_ns.t2", "ns"),
    ("field.batch_verify_ns.t31", "ns"),
    ("monitor.s", "s"),
    ("monitor.checks", "count"),
    ("monitor.ns_per_check", "ns"),
    ("aba.rounds_mean", "rounds"),
    ("aba.rounds_max", "rounds"),
    ("dmm.shun_pairs", "count"),
    ("runtime.setup_ms", "ms"),
    ("runtime.msgs_per_batch", "msgs/batch"),
    ("runtime.bytes_per_msg", "B/msg"),
    ("runtime.dropped", "count"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("codec.sample_msgs", "count"),
    ("trace.instances", "count"),
    ("host.probe_ns", "ns"),
];

/// One run's result.
pub struct Report {
    /// Instances attempted.
    pub attempted: usize,
    /// Instances that failed: did not terminate, or failed a check.
    pub failed: usize,
    /// Failed correctness checks: an instance's safety checks, the codec
    /// round trip, the field kernels, the metric table.
    pub errors: Vec<String>,
    /// `(name, value)`, in any order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Whether every correctness check passed. Instances that did not
    /// terminate count in `failed` only: they produced no wrong output.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The table a run prints: per-layer when traced, end-to-end otherwise.
pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Renders the result line: exactly the table's metrics, in table order.
///
/// # Errors
///
/// A table metric the report lacks, a metric outside the table, or a
/// value that is not finite.
pub fn render(traced: bool, r: &Report) -> Result<String, String> {
    let table = table(traced);
    if let Some((extra, _)) = r
        .metrics
        .iter()
        .find(|(k, _)| !table.iter().any(|(n, _)| n == k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut body = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let mut hits = r.metrics.iter().filter(|(k, _)| k == name);
        let (Some(&(_, value)), None) = (hits.next(), hits.next()) else {
            return Err(format!("metric {name} is missing or repeated"));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        body.join(", ")
    ))
}
