//! Every metric the benchmark emits, with its unit and direction: the
//! single list `BENCHMARK.json` mirrors (a self-test compares the two).

/// One metric declaration.
pub struct MetricDef {
    /// Metric name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit, as printed beside the value.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("op_ms", "ms", "lower"),
    m("work_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single layers; from the traced run. "exact" counts repeat bit-for-bit.
pub const PER_LAYER: &[MetricDef] = &[
    // sthreads
    m("sthreads.region_empty_us", "us", "lower"),
    m("sthreads.parfor_1us_x10k_ms", "ms", "lower"),
    m("sthreads.regions", "count", "lower"),
    m("sthreads.tasks", "count", "lower"),
    m("sthreads.serial_cutoff_regions", "count", "lower"),
    m("sthreads.steals", "count", "lower"),
    m("sthreads.steal_fails", "count", "lower"),
    m("sthreads.parks", "count", "lower"),
    m("sthreads.steal_success_ratio", "ratio", "higher"),
    // c3i
    m("c3i.ta_seq_ms", "ms", "lower"),
    m("c3i.ta_chunked2_ms", "ms", "lower"),
    m("c3i.ta_fine2_ms", "ms", "lower"),
    m("c3i.tm_seq_ms", "ms", "lower"),
    m("c3i.tm_coarse2_ms", "ms", "lower"),
    m("c3i.tm_fine2_ms", "ms", "lower"),
    m("c3i.ta_count_ms", "ms", "lower"),
    m("c3i.tm_count_ms", "ms", "lower"),
    m("c3i.scenario_gen_ms", "ms", "lower"),
    m("c3i.ta_intervals", "count", "lower"),
    m("c3i.ta_ops", "count", "lower"),
    m("c3i.tm_ops", "count", "lower"),
    m("c3i.tm_bytes_computed", "bytes", "lower"),
    m("c3i.allocs_per_op", "count", "lower"),
    // eval-core (with its service and wire modules)
    m("eval_core.workload_build_ms", "ms", "lower"),
    m("eval_core.calibrate_ms", "ms", "lower"),
    m("eval_core.tables_ms", "ms", "lower"),
    m("eval_core.figures_ms", "ms", "lower"),
    m("eval_core.scalability_ms", "ms", "lower"),
    m("eval_core.table_auto_ms", "ms", "lower"),
    m("eval_core.sensitivity_ms", "ms", "lower"),
    m("eval_core.evaluate_us.ping", "us", "lower"),
    m("eval_core.evaluate_us.threat_model", "us", "lower"),
    m("eval_core.evaluate_us.terrain_model", "us", "lower"),
    m("eval_core.evaluate_us.table", "us", "lower"),
    m("eval_core.evaluate_us.figure", "us", "lower"),
    m("eval_core.evaluate_us.scalability", "us", "lower"),
    m("eval_core.evaluate_us.sensitivity", "us", "lower"),
    m("eval_core.cache_store_ms", "ms", "lower"),
    m("eval_core.cache_load_ms", "ms", "lower"),
    m("service.submit_wait_us", "us", "lower"),
    m("wire.ping_rtt_us", "us", "lower"),
    m("serve.p50_ms.cheap", "ms", "lower"),
    m("serve.p50_ms.render", "ms", "lower"),
    m("serve.p50_ms.heavy", "ms", "lower"),
    m("serve.p99_ms", "ms", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.retries", "count", "lower"),
    // mta-sim
    m("mta_sim.asm_ms", "ms", "lower"),
    m("mta_sim.machine_new_ms", "ms", "lower"),
    m("mta_sim.run_ms.mixed", "ms", "lower"),
    m("mta_sim.run_ms.scan", "ms", "lower"),
    m("mta_sim.run_ms.ray", "ms", "lower"),
    m("mta_sim.run_ms.vadd", "ms", "lower"),
    m("mta_sim.run_ms.sparse1", "ms", "lower"),
    m("mta_sim.run_ms.sparse2", "ms", "lower"),
    m("mta_sim.run_ms.sparse4", "ms", "lower"),
    m("mta_sim.run_ms.sparse8", "ms", "lower"),
    m("mta_sim.host_ns_per_instr", "ns", "lower"),
    m("mta_sim.host_ns_per_cycle", "ns", "lower"),
    m("mta_sim.util_sweep_ms", "ms", "lower"),
    m("mta_sim.dense_instr", "count", "lower"),
    m("mta_sim.dense_cycles", "cycles", "lower"),
    m("mta_sim.dense_utilization", "ratio", "higher"),
    m("mta_sim.sparse_instr", "count", "lower"),
    m("mta_sim.sparse_cycles", "cycles", "lower"),
    m("mta_sim.sparse_utilization", "ratio", "higher"),
    m("mta_sim.bank_queue_cycles", "cycles", "lower"),
    m("mta_sim.sync_reparks", "count", "lower"),
    m("mta_sim.allocs_per_op", "count", "lower"),
    // autopar
    m("autopar.report_ms", "ms", "lower"),
    // smp-sim
    m("smp_sim.run_ms", "ms", "lower"),
    m("smp_sim.hit_rate", "ratio", "higher"),
    m("smp_sim.makespan_cycles", "cycles", "lower"),
    // repro
    m("repro.startup_ms", "ms", "lower"),
    m("repro.warm_all_ms", "ms", "lower"),
    m("repro.serve_ready_ms", "ms", "lower"),
    m("repro.residual_ms", "ms", "lower"),
    // the benchmark itself
    m("trace.overhead_pct", "%", "lower"),
    m("host.speed_pct", "%", "higher"),
];

/// Named values collected during a run, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Order the values as `defs` declares them, with units. Fails if a
    /// declared metric is missing, an undeclared one was recorded, or a
    /// value is not finite — a report must list exactly the declared names.
    pub fn ordered(
        &self,
        defs: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !defs.iter().any(|d| d.name == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        defs.iter()
            .map(|d| match self.get(d.name) {
                Some(v) if v.is_finite() => Ok((d, v)),
                Some(v) => Err(format!("metric {} is not finite: {v}", d.name)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}
